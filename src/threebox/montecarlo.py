"""Seeded Monte Carlo sampling of experiments, for checking the exact engine.

Each trial walks the experiment's events with its own counter-based draw
stream (see :mod:`threebox.rng`), so a run is a deterministic function of
(experiment, trials, seed) and is invariant under trial reordering.  Results
come back as frequency tables with binomial standard errors.

:func:`run_trial` is the scalar definition of a trial.  :func:`simulate`
gives the same counts faster: it turns the cells of the experiment's
compiled kernel (see :mod:`threebox.kernel`) into numpy arrays once, and
walks them over fixed chunks of trials, so memory stays bounded whatever
the trial count.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .deck import Outcome, observe, prepare
from .errors import InvalidArgumentsError, NoAcceptedTrialsError
from .exact import Experiment, OutcomeAt, Pattern, format_float
from .kernel import Event
from .rng import CounterStream, CounterStreams

# Trials walked together as one set of arrays.
CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class RunConfig:
    """A simulation request: experiment, trial count, 64-bit seed."""

    experiment: Experiment
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidArgumentsError("a run needs at least one trial")
        check_seed(self.seed)


def check_seed(seed: int) -> None:
    """Reject a seed outside the stream's 64-bit key range."""
    if not 0 <= seed < 1 << 64:
        raise InvalidArgumentsError(f"seed must be in [0, 2**64), got {seed}")


def run_trial(experiment: Experiment, seed: int, trial: int) -> tuple[Outcome, ...]:
    """Walk one trial's events with its own (seed, trial)-keyed draw stream."""
    stream = CounterStream(seed, trial)
    state = prepare(experiment.deck, experiment.preparation)
    outcomes = []
    for manifestation in experiment.manifestations:
        outcome, state = observe(state, manifestation, stream.uniform_index)
        outcomes.append(outcome)
    return tuple(outcomes)


@dataclass
class RetrodictionEstimate:
    """Conditional frequency among accepted trials, with its standard error."""

    estimate: float
    standard_error: float
    accepted: int
    acceptance_rate: float


@dataclass
class FrequencyTable:
    """Counts per outcome sequence, with empirical probabilities and errors."""

    experiment: Experiment
    trials: int
    seed: int
    counts: dict[tuple[Outcome, ...], int]

    def count(self, pattern: Pattern) -> int:
        """Trials whose outcome sequence matches the pattern."""
        return sum(n for seq, n in self.counts.items() if pattern.matches(seq))

    @functools.cached_property
    def accepted(self) -> int:
        """Trials that pass the postselection; every trial when there is none."""
        if self.experiment.postselection is None:
            return self.trials
        return self.count(OutcomeAt(*self.experiment.postselection))

    def frequency(self, outcomes: tuple[Outcome, ...]) -> float:
        return self.counts.get(outcomes, 0) / self.trials

    def marginal_frequency(self, ordinal: int, outcome: Outcome) -> float:
        """Empirical chance that the event at ``ordinal`` reported ``outcome``."""
        self.experiment.check_outcome_at(ordinal, outcome, "query")
        return self.count(OutcomeAt(ordinal, outcome)) / self.trials

    def retrodiction(self, ordinal: int, outcome: Outcome) -> "RetrodictionEstimate":
        """Conditional frequency of ``outcome`` among accepted trials.

        The query is checked by :meth:`Experiment.check_retrodiction`, as the
        exact engine checks it.
        """
        postselected = self.experiment.check_retrodiction(ordinal, outcome)
        if self.accepted == 0:
            raise NoAcceptedTrialsError("postselection never fired; exact acceptance is presumably zero")
        estimate = self.count(OutcomeAt(ordinal, outcome) & postselected) / self.accepted
        return RetrodictionEstimate(
            estimate=estimate,
            standard_error=self.standard_error(estimate, self.accepted),
            accepted=self.accepted,
            acceptance_rate=self.acceptance_rate,
        )

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials

    def standard_error(self, p: float, n: int | None = None) -> float:
        """Binomial standard error of a frequency estimated from ``n`` trials."""
        n = self.trials if n is None else n
        return math.sqrt(p * (1 - p) / n) if n else float("inf")

    def to_dict(self) -> dict:
        rows = []
        for seq in sorted(self.counts, key=lambda s: tuple(map(str, s))):
            n = self.counts[seq]
            p = n / self.trials
            rows.append(
                {
                    "outcomes": [str(o) for o in seq],
                    "count": n,
                    "frequency": _sig12(p),
                    "standard_error": _sig12(self.standard_error(p)),
                }
            )
        report = {
            "trials": self.trials,
            "seed": self.seed,
            "sequences": rows,
        }
        if self.experiment.postselection is not None:
            report["accepted"] = self.accepted
            report["acceptance_rate"] = _sig12(self.acceptance_rate)
        return report


def simulate(config: RunConfig) -> FrequencyTable:
    """Run every trial and tally its outcome sequence.

    The counts equal those of :func:`run_trial` over trials ``0 .. trials-1``
    exactly.  Chunk tallies merge by plain count addition, so the result
    does not depend on the order trials are executed in.
    """
    experiment = config.experiment
    sizes = [len(m.outcomes(experiment.deck)) for m in experiment.manifestations]
    if math.prod(sizes) > np.iinfo(np.int64).max:
        raise InvalidArgumentsError("too many possible outcome sequences to tally in 64 bits")
    events = experiment.kernel.events
    cells = [
        (
            len(event.outcomes),
            event.width,
            np.array(event.pool_sizes, dtype=np.uint64),
            np.array(event.outcome_ids, dtype=np.intp),
            np.array(event.successor_ids, dtype=np.intp),
        )
        for event in events
    ]
    tally: Counter[int] = Counter()
    for start in range(0, config.trials, CHUNK_TRIALS):
        trials = np.arange(start, min(start + CHUNK_TRIALS, config.trials), dtype=np.uint64)
        codes, counts = np.unique(_walk(cells, config.seed, trials), return_counts=True)
        tally.update(dict(zip(codes.tolist(), counts.tolist())))
    return FrequencyTable(
        experiment=experiment,
        trials=config.trials,
        seed=config.seed,
        counts={_decode(events, code): n for code, n in tally.items()},
    )


def _sig12(x: float) -> float:
    """Round to 12 significant digits for stable, readable reports."""
    return float(format_float(x))


def _walk(cells: list[tuple], seed: int, trials: np.ndarray) -> np.ndarray:
    """The outcome-sequence code of each of the given trials.

    ``cells`` holds one ``(outcome count, width, pool sizes, outcome ids,
    successor ids)`` per event, the last three as arrays.  A code is
    mixed-radix over the events' outcome positions, the first event being
    the most significant digit.
    """
    streams = CounterStreams(seed, trials)
    state = np.zeros(len(trials), dtype=np.intp)
    code = np.zeros(len(trials), dtype=np.int64)
    for radix, width, pool_sizes, outcome_ids, successor_ids in cells:
        cell = state * width + streams.uniform_index(pool_sizes[state]).astype(np.intp)
        code = code * radix + outcome_ids[cell]
        state = successor_ids[cell]
    return code


def _decode(events: tuple[Event, ...], code: int) -> tuple[Outcome, ...]:
    """The outcome sequence a code stands for."""
    sequence = []
    for event in reversed(events):
        code, k = divmod(code, len(event.outcomes))
        sequence.append(event.outcomes[k])
    return tuple(reversed(sequence))
