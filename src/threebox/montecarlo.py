"""Seeded Monte Carlo sampling of experiments, for checking the exact engine.

Each trial walks the experiment's events with its own counter-based draw
stream (see :mod:`threebox.rng`), so a run is a deterministic function of
(experiment, trials, seed) and is invariant under trial reordering.  Results
come back as frequency tables with binomial standard errors.

:func:`run_trial` is the scalar definition of a trial.  :func:`simulate`
gives the same counts faster: it spreads the pool runs of the experiment's
compiled kernel (see :mod:`threebox.kernel`) into dense numpy arrays, one
cell per draw index, once per run, and walks them over fixed chunks of
:data:`CHUNK_TRIALS` trials, each event drawing by the
:class:`threebox.rng.DrawRule` worked out for it once per run (see
:meth:`threebox.rng.CounterStreams.uniform_index`).  An event whose pool
sizes are all powers of two repeats each pool across the widest, so it
draws from that one size with one mask and reads no state id; so does an
event of one pool size.  Only an event with other differing sizes draws
from its per-state table.  The trial keys of a chunk below 2**30 start
from the stream's trial progression (see :mod:`threebox.rng`).

The walk goes a block of consecutive events at a time.  A block grows
while its events all draw with one size and its cells, entry states times
the product of the events' widths, stay within one chunk's trials (or the
run's, when fewer), so its tables never cost more to build than one walk
of the run; an event drawing from its per-state table is a block of its
own.  Each event of a block draws its index as before, in the same order
from the same words; the indices combine into one joint index, and one
gather reads the block's summed code digits, one more its exit state.
Exit ids are stored already multiplied by the next block's joint width
when that block draws with one size.  The README request is one block of
two events, so a chunk of it makes some 45 numpy array operations, one of
them a gather.
Below 8,192 trials the fixed cost of each chunk dominates.  8,192 is the
largest power of two whose ``uint64`` arrays (64 KiB) stay below glibc's
default mmap threshold of 128 KiB; at 16,384 the timing follows the
allocator's history and peak memory grows.
The first block starts every trial from the prepared state, and the last
one's exit ids are never built or gathered.  A chunk's outcome sequences
come out as integer codes, which are counted in one array over the whole
code space when that space is small, and otherwise merged as sorted
distinct codes with their counts.  Memory follows the code space or the
number of distinct sequences, never the trial count.

:func:`simulate_runs` walks several experiments with one ``(trials,
seed)`` together, and :func:`simulate` is its one-experiment case.  The
runs of a chunk read one set of streams: its trial keys are mixed once and
word ``k`` once, for every run's ``k``-th draw.  Words depend only on
(seed, trial, word index), and each run keeps its own redraws, so each
run's counts are those of a run of its own, bit for bit.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .deck import Outcome, Value, _set, check_run, format_float, observe, prepare
from .errors import InvalidArgumentsError, NoAcceptedTrialsError
from .exact import Experiment, OutcomeAt, Pattern
from .kernel import Event
from .rng import CounterStream, CounterStreams, DrawRule, seed_key

# Trials walked together as one set of arrays.  Fewer pay each chunk's fixed
# numpy dispatch cost too often; at 16,384 each uint64 array is 128 KiB,
# glibc's default mmap threshold, and the timing follows the allocator.
CHUNK_TRIALS = 8192
# The largest code space tallied in one int64 array of counts (0.5 MiB).  A
# chunk's bincount touches every code, so a much larger space would cost
# more per chunk than the walk itself.
TALLY_CODES = 1 << 16


def run_trial(experiment: Experiment, seed: int, trial: int) -> tuple[Outcome, ...]:
    """Walk one trial's events with its own (seed, trial)-keyed draw stream."""
    stream = CounterStream(seed, trial)
    state = prepare(experiment.deck, experiment.preparation)
    outcomes = []
    for manifestation in experiment.manifestations:
        outcome, state = observe(state, manifestation, stream.uniform_index)
        outcomes.append(outcome)
    return tuple(outcomes)


class RetrodictionEstimate(NamedTuple):
    """Conditional frequency among accepted trials, with its standard error."""

    estimate: float
    standard_error: float
    accepted: int
    acceptance_rate: float


class FrequencyTable(Value):
    """Counts per outcome sequence, with empirical probabilities and errors."""

    __slots__ = ("experiment", "trials", "seed", "counts", "_accepted")
    __hash__ = None  # the counts are a dict

    def __init__(self, experiment: Experiment, trials: int, seed: int, counts: dict[tuple[Outcome, ...], int]) -> None:
        Value.__init__(self, experiment, trials, seed, counts)
        _set(self, "_accepted", None)

    def count(self, pattern: Pattern) -> int:
        """Trials whose outcome sequence matches the pattern."""
        return sum(n for seq, n in self.counts.items() if pattern.matches(seq))

    @property
    def accepted(self) -> int:
        """Trials that pass the postselection; every trial when there is none.  Counted on first use."""
        if self._accepted is None:
            postselection = self.experiment.postselection
            _set(self, "_accepted", self.trials if postselection is None else self.count(OutcomeAt(*postselection)))
        return self._accepted

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
        # Each sequence's labels are made once, for the sort and the row, and
        # each distinct count's frequency and error are formatted once.
        labelled = sorted(((tuple(map(str, seq)), n) for seq, n in self.counts.items()), key=itemgetter(0))
        formatted = {}
        rows = []
        for labels, n in labelled:
            if n not in formatted:
                p = n / self.trials
                formatted[n] = (_sig12(p), _sig12(self.standard_error(p)))
            frequency, standard_error = formatted[n]
            rows.append(
                {"outcomes": list(labels), "count": n, "frequency": frequency, "standard_error": standard_error}
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


def simulate(experiment: Experiment, trials: int, seed: int) -> FrequencyTable:
    """Run every trial and tally its outcome sequence: :func:`simulate_runs` of one experiment."""
    return simulate_runs((experiment,), trials, seed)[0]


def simulate_runs(experiments: tuple[Experiment, ...], trials: int, seed: int) -> tuple[FrequencyTable, ...]:
    """The table of each experiment's run of ``trials`` trials with ``seed``, walked together.

    Each experiment's counts equal those of :func:`run_trial` over trials
    ``0 .. trials-1`` exactly, so they equal its own :func:`simulate` run.
    The runs of one chunk read one set of streams (see
    :meth:`threebox.rng.CounterStreams.reader`): the trial keys are mixed
    once, and word ``k`` once for every run's ``k``-th draw.  Chunk tallies
    merge by plain count addition, so a result does not depend on the order
    trials are executed in.  A code space of at most :data:`TALLY_CODES`
    sequences is tallied in one array of counts; a larger one by merging
    each chunk's distinct codes and their counts.
    """
    if trials < 1:
        raise InvalidArgumentsError("a run needs at least one trial")
    check_run(trials, seed)
    if not experiments:
        return ()
    tallies = []
    for experiment in experiments:
        space = math.prod(len(m.outcomes(experiment.deck)) for m in experiment.manifestations)
        if space > np.iinfo(np.int64).max:
            raise InvalidArgumentsError("too many possible outcome sequences to tally in 64 bits")
        tallies.append(_Tally(space))
    tables = [_tables(experiment.kernel.events, trials) for experiment in experiments]
    key = seed_key(seed)
    for start in range(0, trials, CHUNK_TRIALS):
        for tally, code in zip(tallies, _walk(tables, key, range(start, min(start + CHUNK_TRIALS, trials)))):
            tally.add(code)
    results = []
    for experiment, tally in zip(experiments, tallies):
        codes, counts = tally.result()
        sequences = _decode(experiment.kernel.events, codes)
        results.append(FrequencyTable(experiment, trials, seed, dict(zip(sequences, counts.tolist()))))
    return tuple(results)


class _Tally:
    """The counts of one run's outcome-sequence codes, added a chunk at a time.

    A space of at most :data:`TALLY_CODES` codes is counted in one array;
    a larger one keeps each chunk's distinct codes and counts, merged
    whenever the unmerged tallies outgrow the merged one, so memory follows
    the number of distinct sequences, not of trials.
    """

    __slots__ = ("space", "total", "tallies", "held")

    def __init__(self, space: int) -> None:
        self.space = space
        self.total = np.zeros(space, dtype=np.int64) if space <= TALLY_CODES else None
        self.tallies, self.held = [], 0

    def add(self, code: np.ndarray) -> None:
        if self.total is not None:
            self.total += np.bincount(code, minlength=self.space)
            return
        self.tallies.append(np.unique(code, return_counts=True))
        self.held += len(self.tallies[-1][0])
        if self.held > max(TALLY_CODES, len(self.tallies[0][0])):
            self.tallies, self.held = [_merge(self.tallies)], 0

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct codes, in order, and their counts."""
        if self.total is None:
            return _merge(self.tallies)
        codes = np.flatnonzero(self.total)
        return codes, self.total[codes]


def _sig12(x: float) -> float:
    """Round to 12 significant digits for stable, readable reports."""
    return float(format_float(x))


def _tables(events: tuple[Event, ...], trials: int) -> list[tuple]:
    """The run's blocks of consecutive events, each ``(draws, code digits, exit ids)``.

    ``draws`` holds each of the block's events' ``(width, draw rule)`` (see
    :func:`_draw`).  A block grows while every event in it draws with one
    size and its cells, its entry states times the product of its widths,
    stay within ``min(CHUNK_TRIALS, trials)``, so building its tables never
    costs more than walking the run once.  An event that draws from its
    per-state table is a block of its own, whose tables are its
    :func:`_cells`.  A block's tables are :func:`_block`; when the next
    block draws with one size, an exit id is stored times that block's
    joint width, so it is already the first cell of its row.
    """
    cap = min(CHUNK_TRIALS, trials)
    draws = [_draw(event) for event in events]
    places = [1] * len(events)  # each event's place value in the mixed-radix code, the first most significant
    for e in range(len(events) - 2, -1, -1):
        places[e] = places[e + 1] * len(events[e + 1].outcomes)
    groups, cells = [], 0  # each block's event positions; the last block's cells
    for e, (width, rule) in enumerate(draws):
        if groups and rule.table is None and draws[groups[-1][0]][1].table is None and cells * width <= cap:
            groups[-1].append(e)
            cells *= width
        else:
            groups.append([e])
            cells = len(events[e].pool_sizes) * width
    tables, scale = [], None  # the last block's exit ids are never read
    for group in reversed(groups):
        block = tuple(draws[e] for e in group)
        tables.append((block, *_block([events[e] for e in group], [places[e] for e in group], scale)))
        scale = math.prod(width for width, _ in block) if block[0][1].table is None else 1
    return tables[::-1]


def _draw(event: Event) -> tuple[int, DrawRule]:
    """An event's width, its widest pool, and the :class:`DrawRule` it draws by.

    When every pool size is a power of two, each divides ``width``, and
    ``w & (width - 1) & (n - 1)`` is ``w & (n - 1)``: the event draws by the
    rule of the one size ``width``, with one mask and no state id.
    Otherwise the rule is that of the event's pool sizes.
    """
    sizes = event.pool_sizes
    width = max(sizes)
    return width, DrawRule((width,) if all(n & (n - 1) == 0 for n in sizes) else sizes)


def _block(events: list[Event], places: list[int], scale: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The code digits and exit ids of a block of events, flat arrays of one cell per path.

    Cell ``s * W + J`` of a block of joint width ``W`` stands for entry
    state ``s`` and joint index ``J = (i1 * w2 + i2) * w3 + ...`` of its
    events' draw indices.  Its code digit is the sum of the digits of the
    events' :func:`_cells` along that path, and its exit id the successor id
    it ends in, times ``scale`` (``None`` without ``scale``).  Each further
    event spreads every path so far over its own draw indices, with the
    gathers a walk of its cells would make.  A block of one event is its
    cells.
    """
    digits = successor_ids = None
    for k, (event, place) in enumerate(zip(events, places), 1):
        event_digits, event_ids = _cells(event, place, scale if k == len(events) else 1)
        if digits is None:
            digits, successor_ids = event_digits, event_ids
        else:
            path = (successor_ids[..., None], np.arange(event_digits.shape[1]))
            digits = digits[..., None] + event_digits[path]
            successor_ids = None if event_ids is None else event_ids[path]
    return digits.ravel(), None if successor_ids is None else successor_ids.ravel()


def _cells(event: Event, place: int, scale: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """An event's code digits and successor ids, dense arrays of one row per state.

    Entry ``[s, i]`` of a row of ``width`` (see :func:`_draw`) stands for
    draw index ``i mod n`` into state ``s``'s pool of ``n`` cards: each row
    repeats its pool across the row.  Its code digit is the reported
    outcome's position times ``place``, the event's place value in the
    mixed-radix code, and its successor id the next state's times
    ``scale``.  Without ``scale`` the successor ids are ``None``.  Entries
    past a pool's end are only drawn when every pool size is a power of
    two.
    """
    sizes = event.pool_sizes
    width = max(sizes)
    digits = np.empty((len(sizes), width), dtype=np.int64)
    successor_ids = None if scale is None else np.empty_like(digits)
    for s, (runs, rows, size) in enumerate(zip(event.runs, event.rows, sizes)):
        start = 0
        for n, k in runs:
            digits[s, start : start + n] = k * place
            if scale is not None:
                successor_ids[s, start : start + n] = rows[k][1] * scale
            start += n
        if size < width:
            digits[s] = np.resize(digits[s, :size], width)
            if scale is not None:
                successor_ids[s] = np.resize(successor_ids[s, :size], width)
    return digits, successor_ids


def _walk(tables: list[list[tuple]], key: np.uint64, trials: range) -> list[np.ndarray]:
    """Each run's outcome-sequence code of each of the given trials, drawn with the runs' seed key.

    ``tables`` holds one run's :func:`_tables` per experiment.  Each block
    draws its events' indices in order, each by its own rule, combines them
    into the joint index and reads its cell with one gather for the code
    digits and one for the exit ids, none for the run's last block.  A
    code is the sum of the digits of the cells a trial passes through.
    Every run reads its own reader of one set of streams, so the runs share
    the trial keys and words.
    """
    shared = CounterStreams(key, trials)
    # Every reader is made before the first draw, so each word is mixed once and kept for the others.
    readers = [shared, *(shared.reader() for _ in tables[1:])]
    codes = []
    for blocks, streams in zip(tables, readers):
        if not blocks:
            codes.append(np.zeros(len(trials), dtype=np.int64))
            continue
        # Every trial starts in the prepared state, id 0, so the first block's cell is its joint index.
        state = code = None
        for k, (draws, digits, exit_ids) in enumerate(blocks, 1):
            cell = None
            for width, rule in draws:
                # An index is below its pool size, so its uint64 bits read as the same int64.
                if rule.table is None:
                    index = streams.uniform_index(rule).view(np.int64)
                else:
                    # A per-state table's event is a block of its own, entered with unscaled state ids.
                    index = streams.uniform_index(rule, state).view(np.int64)
                    state *= width
                if cell is None:
                    cell = index
                else:
                    cell *= width
                    cell += index
            if state is not None:
                # ``state`` is already the first cell of the trial's row.
                cell += state
            if code is None:
                code = digits[cell]
            else:
                code += digits[cell]
            if k < len(blocks):
                state = exit_ids[cell]
        codes.append(code)
    return codes


def _merge(tallies: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``(codes, counts)`` tallies into one, with distinct codes in order."""
    codes = np.concatenate([c for c, _ in tallies])
    counts = np.concatenate([n for _, n in tallies])
    order = np.argsort(codes)
    codes, counts = codes[order], counts[order]
    first = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[first], np.add.reduceat(counts, first)


def _decode(events: tuple[Event, ...], codes: np.ndarray) -> list[tuple[Outcome, ...]]:
    """The outcome sequences the codes stand for, one per code."""
    columns = []
    for event in reversed(events):
        codes, positions = np.divmod(codes, len(event.outcomes))
        columns.append(np.fromiter(event.outcomes, dtype=object, count=len(event.outcomes))[positions])
    return list(zip(*reversed(columns))) if columns else [()] * len(codes)
