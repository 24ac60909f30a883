"""Per-layer tracing of the threebox package, done from outside the package.

While a :class:`Tracer` is installed, every public function of each layer
module is replaced, in every threebox namespace that refers to it, by a
wrapper that counts its calls and sums its inclusive and self time.  A
layer's self time excludes the time spent in wrapped functions it calls.

The two per-draw functions of the random stream (``uniform_index`` and
``next_word``) are called millions of times per run, so they get lighter
wrappers that only count, and time ``uniform_index`` to charge it to the
enclosing span, so ``montecarlo.self_s`` excludes the random stream.

Removing the tracer restores every original object, so untraced passes run
the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "deckfile", "deck", "decks", "exact", "formulas", "rng", "montecarlo", "quantum", "scenarios")

# FrequencyTable methods wrapped besides the module-level functions.
_REPORT_METHODS = ("to_dict", "retrodiction", "marginal_frequency")
_QUERIES = ("probability", "conditional_probability", "retrodict_exact", "acceptance_probability")

# name: (unit, what it measures); the order is the order of the output.
PER_LAYER = {
    "rng.draws": ("count", "CounterStream.uniform_index calls"),
    "rng.words": ("count", "CounterStream.next_word calls"),
    "rng.rejections": ("count", "words minus draws"),
    "rng.words_per_s": ("1/s", "words per second of the CounterStream API alone, replaying the traced draws"),
    "montecarlo.runs": ("count", "simulate calls"),
    "montecarlo.trials": ("count", "trials simulated"),
    "montecarlo.accepted": ("count", "trials that passed the postselection"),
    "montecarlo.accept_ratio": ("ratio", "accepted / trials"),
    "montecarlo.simulate_s": ("s", "simulate, inclusive"),
    "montecarlo.self_s": ("s", "simulate self time: walker and tally, random stream excluded"),
    "montecarlo.trials_per_s": ("1/s", "trials / simulate_s"),
    "montecarlo.sequences": ("count", "distinct outcome sequences tallied"),
    "montecarlo.report_s": ("s", "FrequencyTable to_dict, retrodiction and marginal_frequency"),
    "exact.enumerations": ("count", "enumerate_tree calls"),
    "exact.tree_nodes": ("count", "branch-tree nodes built"),
    "exact.enumerate_s": ("s", "enumerate_tree, inclusive"),
    "exact.enumerate_self_s": ("s", "enumerate_tree self time"),
    "exact.nodes_per_s": ("1/s", "tree_nodes / enumerate_s"),
    "exact.enumerations_per_experiment": ("ratio", "enumerations / distinct experiments within each op"),
    "exact.query_self_s": ("s", "self time of the exact queries"),
    "exact.report_s": ("s", "tree_report, excluding its enumeration"),
    "deck.step_distribution_calls": ("count", "step_distribution calls"),
    "deck.step_distribution_s": ("s", "step_distribution, inclusive"),
    "deck.prepare_calls": ("count", "prepare calls"),
    "deck.prepare_s": ("s", "prepare, inclusive"),
    "cli.calls": ("count", "cli.main calls"),
    "cli.self_s": ("s", "cli self time: argparse, report formatting, JSON output"),
    "deckfile.loads": ("count", "load_deck calls"),
    "deckfile.load_s": ("s", "load_deck, inclusive"),
    "scenarios.claims": ("count", "claims reported"),
    "scenarios.self_s": ("s", "scenarios self time"),
    "formulas.calls": ("count", "formulas function calls"),
    "formulas.s": ("s", "time in formulas"),
    "quantum.calls": ("count", "quantum function calls"),
    "quantum.s": ("s", "time in quantum"),
    "trace.overhead_s": ("s", "traced pass wall minus untraced pass wall, medians"),
}


class Tracer:
    """Counts and times the package's public functions while installed."""

    def __init__(self) -> None:
        self._modules = {layer: importlib.import_module(f"threebox.{layer}") for layer in LAYERS}
        self._namespaces = [importlib.import_module("threebox"), *self._modules.values()]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; installing the tracer does this too."""
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter[str] = Counter()  # int counts, plus one float sum of seconds
        self.pool_sizes: Counter[int] = Counter()
        self._draws = [0]
        self._words = [0]
        self._stack: list[list] = []  # open spans: [name, seconds in wrapped children]
        self._op_experiments: set = set()

    def end_op(self) -> None:
        """Close one CLI invocation: experiments are counted as distinct within it."""
        self.counts["experiments"] += len(self._op_experiments)
        self._op_experiments.clear()

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.reset()
        hooks = {
            "exact.enumerate_tree": self._on_enumerate,
            "deck.step_distribution": self._on_step_distribution,
            "montecarlo.simulate": self._on_simulate,
            "scenarios.run_scenario": self._on_run_scenario,
        }
        wrapped = {}
        for layer, module in self._modules.items():
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    qualified = f"{layer}.{name}"
                    wrapped[fn] = self._span(qualified, fn, hooks.get(qualified))
        for namespace in self._namespaces:
            for name, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(namespace, name, wrapped[value])
        table = self._modules["montecarlo"].FrequencyTable
        for name in _REPORT_METHODS:
            self._patch(table, name, self._span(f"montecarlo.FrequencyTable.{name}", getattr(table, name)))
        stream = self._modules["rng"].CounterStream
        self._patch(stream, "uniform_index", self._draw_wrapper(stream.uniform_index))
        self._patch(stream, "next_word", self._word_wrapper(stream.next_word))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if hook is not None:
                hook(parent, args, result, elapsed)
            return result

        return wrapper

    def _draw_wrapper(self, fn):
        draws, stack, pool_sizes = self._draws, self._stack, self.pool_sizes

        @functools.wraps(fn)
        def uniform_index(stream, n):
            start = perf_counter()
            result = fn(stream, n)
            elapsed = perf_counter() - start
            draws[0] += 1
            pool_sizes[n] += 1
            if stack:
                stack[-1][1] += elapsed
            return result

        return uniform_index

    def _word_wrapper(self, fn):
        words = self._words

        @functools.wraps(fn)
        def next_word(stream):
            words[0] += 1
            return fn(stream)

        return next_word

    # -- hooks: counts taken where the work happens -------------------------

    def _on_enumerate(self, parent, args, result, elapsed) -> None:
        self.counts["tree_nodes"] += 1  # the root; step_distribution adds the rest
        self._op_experiments.add(args[0])
        if parent is not None and parent[0] == "exact.tree_report":
            self.counts["report_enumerate_s"] += elapsed

    def _on_step_distribution(self, parent, args, result, elapsed) -> None:
        if parent is not None and parent[0] == "exact.enumerate_tree":
            self.counts["tree_nodes"] += len(result)

    def _on_simulate(self, parent, args, result, elapsed) -> None:
        self.counts["trials"] += result.trials
        self.counts["accepted"] += result.accepted
        self.counts["sequences"] += len(result.counts)

    def _on_run_scenario(self, parent, args, result, elapsed) -> None:
        self.counts["claims"] += len(result.claims)

    # -- results --------------------------------------------------------------

    @property
    def words(self) -> int:
        return self._words[0]

    def layer_metrics(self) -> dict[str, float | int | None]:
        """The per-layer metrics of everything recorded; ``None`` where a rate has no work."""

        def calls(*names):
            return sum(self.stats.get(n, (0,))[0] for n in names)

        def inclusive(*names):
            return sum(self.stats.get(n, (0, 0.0))[1] for n in names)

        def own(*names):
            return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

        def layer(prefix):
            return [n for n in self.stats if n.startswith(prefix + ".")]

        def ratio(a, b):
            return a / b if b else None

        c = self.counts
        enumerate_s = inclusive("exact.enumerate_tree")
        simulate_s = inclusive("montecarlo.simulate")
        enumerations = calls("exact.enumerate_tree")
        return {
            "rng.draws": self._draws[0],
            "rng.words": self.words,
            "rng.rejections": self.words - self._draws[0],
            "montecarlo.runs": calls("montecarlo.simulate"),
            "montecarlo.trials": c["trials"],
            "montecarlo.accepted": c["accepted"],
            "montecarlo.accept_ratio": ratio(c["accepted"], c["trials"]),
            "montecarlo.simulate_s": simulate_s,
            "montecarlo.self_s": own("montecarlo.simulate"),
            "montecarlo.trials_per_s": ratio(c["trials"], simulate_s),
            "montecarlo.sequences": c["sequences"],
            "montecarlo.report_s": inclusive(*(f"montecarlo.FrequencyTable.{m}" for m in _REPORT_METHODS)),
            "exact.enumerations": enumerations,
            "exact.tree_nodes": c["tree_nodes"],
            "exact.enumerate_s": enumerate_s,
            "exact.enumerate_self_s": own("exact.enumerate_tree"),
            "exact.nodes_per_s": ratio(c["tree_nodes"], enumerate_s),
            "exact.enumerations_per_experiment": ratio(enumerations, c["experiments"]),
            "exact.query_self_s": own(*(f"exact.{q}" for q in _QUERIES)),
            "exact.report_s": inclusive("exact.tree_report") - c["report_enumerate_s"],
            "deck.step_distribution_calls": calls("deck.step_distribution"),
            "deck.step_distribution_s": inclusive("deck.step_distribution"),
            "deck.prepare_calls": calls("deck.prepare"),
            "deck.prepare_s": inclusive("deck.prepare"),
            "cli.calls": calls("cli.main"),
            "cli.self_s": own(*layer("cli")),
            "deckfile.loads": calls("deckfile.load_deck"),
            "deckfile.load_s": inclusive("deckfile.load_deck"),
            "scenarios.claims": c["claims"],
            "scenarios.self_s": own(*layer("scenarios")),
            "formulas.calls": calls(*layer("formulas")),
            "formulas.s": own(*layer("formulas")),
            "quantum.calls": calls(*layer("quantum")),
            "quantum.s": own(*layer("quantum")),
        }


def rng_words_per_s(pool_sizes: dict[int, int], streams: int, words: int, seed: int) -> float | None:
    """Words per second of the bare CounterStream API, replaying a traced pass's draws.

    The replay makes the same number of draws from the same pool sizes, with
    a fresh stream every ``draws / streams`` draws, as one stream per trial
    does.  Rejections are astronomically rare for small pools, so the replay
    consumes the traced word count.
    """
    from threebox.rng import CounterStream

    draws = sum(pool_sizes.values())
    if not draws:
        return None
    per_stream = max(1, round(draws / max(streams, 1)))
    start = perf_counter()
    for n, count in pool_sizes.items():
        for first in range(0, count, per_stream):
            stream = CounterStream(seed, first)
            for _ in range(min(per_stream, count - first)):
                stream.uniform_index(n)
    return words / (perf_counter() - start)


def combine(per_pass: list[dict]) -> dict:
    """One value per metric over traced passes: counts from the first, times as medians."""
    combined = {}
    for name, value in per_pass[0].items():
        if PER_LAYER[name][0] == "count" or value is None:
            combined[name] = value
        else:
            combined[name] = statistics.median(p[name] for p in per_pass if p[name] is not None)
    return combined
